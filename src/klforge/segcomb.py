"""Segments, multisegments, and bi-sequence families.

A segment [a, b] is a pair of integers with a <= b.  A multisegment is a
finite multiset of segments.  A bi-sequence is a pair of integer sequences
(a_1 <= ... <= a_k; b_1 >= ... >= b_k) with a_i <= b_{k+1-i} + 1; it
parametrizes the family of multisegments

    M_sigma = [a_1, b_{sigma(1)}] + ... + [a_k, b_{sigma(k)}]

indexed by the permutations sigma lying above a minimal permutation
sigma0, which is produced by a greedy recursion.  Degenerate pairs
[b+1, b] act as empty segments and are dropped; they exist only inside
that constructor, never as stored Segment values.

Two parabolic subgroups of S_k are attached to a bi-sequence, generated by
the adjacent transpositions fixing equal consecutive b's (respectively
a's).  The bi-sequence is regular when both are trivial, and strongly
regular when moreover no a equals any b + 1; strong regularity forces any
two distinct segments of any member of the family into general position,
which is what the straightening engine needs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .symgroup import (
    ParabolicShape,
    Perm,
    inverse,
    is_pattern_avoiding,
)


class BelowSigma0(ValueError):
    """The permutation does not dominate the minimal permutation of the family."""


class Not213Avoiding(ValueError):
    """The construction requires a 213-avoiding permutation."""


PATTERN_213: Perm = (2, 1, 3)


@dataclass(frozen=True, order=False)
class Segment:
    """An integer segment [a, b] with a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b:
            raise ValueError(f"empty segment [{self.a},{self.b}]")

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


def seg_sort_key(s: Segment) -> tuple[int, int]:
    """Key realizing the total order: compare right ends, then left ends."""
    return (s.b, s.a)


def precedes(d1: Segment, d2: Segment) -> bool:
    """d1 precedes d2 when a1 < a2, b1 < b2 and a2 <= b1 + 1 (a linked pair)."""
    return d1.a < d2.a and d1.b < d2.b and d2.a <= d1.b + 1


def general_position(d1: Segment, d2: Segment) -> bool:
    return (
        d1.a != d2.a
        and d1.b != d2.b
        and d1.a != d2.b + 1
        and d2.a != d1.b + 1
    )


class Multisegment:
    """A finite multiset of segments, canonically sorted by seg_sort_key.
    The constructor counts and sorts; from_sorted_items (from_counts and
    n * M) takes (segment, multiplicity) pairs already in order."""

    __slots__ = ("_items",)

    def __init__(self, segments: Iterable[Segment] = ()):
        self._items = tuple(sorted(Counter(segments).items(),
                                   key=lambda kv: seg_sort_key(kv[0])))

    @classmethod
    def from_counts(cls, counts: Mapping[Segment, int]) -> "Multisegment":
        items = [(s, c) for s, c in counts.items() if c]
        if any(c < 0 for _, c in items):
            raise ValueError("multiplicities must be nonnegative")
        return cls.from_sorted_items(
            tuple(sorted(items, key=lambda kv: seg_sort_key(kv[0]))))

    @classmethod
    def from_sorted_items(cls, items: tuple[tuple[Segment, int], ...]) -> "Multisegment":
        """Positive multiplicities in increasing segment order, unchecked."""
        m = cls.__new__(cls)
        m._items = items
        return m

    @classmethod
    def empty(cls) -> "Multisegment":
        return cls(())

    def items(self) -> tuple[tuple[Segment, int], ...]:
        """(segment, multiplicity) pairs in increasing segment order."""
        return self._items

    def segments(self) -> Iterator[Segment]:
        """Each segment repeated with its multiplicity, in order."""
        for s, c in self._items:
            for _ in range(c):
                yield s

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __add__(self, other: "Multisegment") -> "Multisegment":
        if not isinstance(other, Multisegment):
            return NotImplemented
        return Multisegment.from_counts(
            Counter(dict(self._items)) + Counter(dict(other._items)))

    def __rmul__(self, n: int) -> "Multisegment":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("multiplicities must be nonnegative")
        items = tuple((s, n * c) for s, c in self._items) if n else ()
        return Multisegment.from_sorted_items(items)

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multisegment):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def to_json(self) -> list[dict]:
        return [{"a": s.a, "b": s.b, "mult": c} for s, c in self._items]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "Multisegment":
        counts: Counter[Segment] = Counter()
        for rec in data:
            counts[Segment(int(rec["a"]), int(rec["b"]))] += int(rec.get("mult", 1))
        return cls.from_counts(counts)

    def __str__(self) -> str:
        if not self._items:
            return "0"
        return "+".join(str(s) for s in self.segments())

    def __repr__(self) -> str:
        return f"Multisegment({list(self.segments())!r})"


@dataclass(frozen=True)
class BiSequence:
    """A pair of monotone integer sequences defining a multisegment family."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        k = len(self.a)
        if k == 0 or len(self.b) != k:
            raise ValueError("need two sequences of equal positive length")
        if any(self.a[i] > self.a[i + 1] for i in range(k - 1)):
            raise ValueError("left ends must be nondecreasing")
        if any(self.b[i] < self.b[i + 1] for i in range(k - 1)):
            raise ValueError("right ends must be nonincreasing")
        for i in range(k):
            if self.a[i] > self.b[k - 1 - i] + 1:
                raise ValueError(
                    f"a_{i+1} = {self.a[i]} exceeds b_{k-i} + 1 = {self.b[k-1-i] + 1}"
                )

    @property
    def k(self) -> int:
        return len(self.a)

    @cached_property
    def derived(self) -> dict:
        """What callers derive from the frozen fields, outside eq, hash and repr."""
        return {}

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_json(cls, data: Mapping) -> "BiSequence":
        if not (isinstance(data, Mapping) and all(
                isinstance(data.get(key), list) and all(type(x) is int for x in data[key])
                for key in "ab")):
            raise ValueError('a bi-sequence is a JSON object {"a": [...], "b": [...]} '
                             'of two integer lists')
        return cls(tuple(data["a"]), tuple(data["b"]))

    def __str__(self) -> str:
        return f"({','.join(map(str, self.a))} / {','.join(map(str, self.b))})"


def _run_blocks(values: tuple[int, ...]) -> tuple[int, ...]:
    """Lengths of maximal runs of equal consecutive values."""
    return tuple(len(list(run)) for _, run in itertools.groupby(values))


def p1_shape(A: BiSequence) -> ParabolicShape:
    """Parabolic subgroup fixing the b-sequence (runs of equal b's)."""
    return ParabolicShape(_run_blocks(A.b))


def p2_shape(A: BiSequence) -> ParabolicShape:
    """Parabolic subgroup fixing the a-sequence (runs of equal a's)."""
    return ParabolicShape(_run_blocks(A.a))


def is_regular(A: BiSequence) -> bool:
    """All left ends distinct and all right ends distinct."""
    return len(set(A.a)) == A.k and len(set(A.b)) == A.k


def is_strongly_regular(A: BiSequence) -> bool:
    """Regular, and no left end equals any right end plus one."""
    return is_regular(A) and not (set(A.a) & {b + 1 for b in A.b})


def sigma0(A: BiSequence) -> Perm:
    """The minimal permutation of the family, by the greedy recursion:
    working down from i = k, sigma0^{-1}(i) is the largest unused j with
    a_j <= b_i + 1."""
    k = A.k
    used = [False] * (k + 1)
    inv = [0] * k
    for i in range(k, 0, -1):
        bi1 = A.b[i - 1] + 1
        for j in range(k, 0, -1):
            if not used[j] and A.a[j - 1] <= bi1:
                used[j] = True
                inv[i - 1] = j
                break
        else:
            raise ValueError(f"no admissible column for row {i} of {A}")
    return inverse(tuple(inv))


def dominates_sigma0(A: BiSequence, sigma: Perm) -> bool:
    """Equivalent to sigma0(A) <= sigma in Bruhat order: a_i <= b_{sigma(i)} + 1."""
    if len(sigma) != A.k:
        raise ValueError("permutation size does not match the family")
    return all(A.a[i] <= A.b[sigma[i] - 1] + 1 for i in range(A.k))


def multisegment_of(A: BiSequence, sigma: Perm) -> Multisegment:
    """The member [a_1, b_{sigma(1)}] + ... of the family, empty segments dropped."""
    if not dominates_sigma0(A, sigma):
        raise BelowSigma0(f"{sigma} does not dominate sigma0({A})")
    segs = []
    for i in range(A.k):
        a, b = A.a[i], A.b[sigma[i] - 1]
        if a <= b:
            segs.append(Segment(a, b))
    return Multisegment(segs)


def replicate(A: BiSequence, m: int) -> BiSequence:
    """Each entry repeated m times; the family of m-fold multisegments."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return BiSequence(
        tuple(x for x in A.a for _ in range(m)),
        tuple(x for x in A.b for _ in range(m)),
    )


def construct_strongly_regular(sigma: Perm) -> BiSequence:
    """A strongly regular bi-sequence whose minimal permutation is sigma.

    Exists exactly when sigma avoids the pattern 213.  Left ends are laid
    out with gap 2k+2; right ends are then placed greedily at the smallest
    admissible values, working up from b_k.  The result is re-verified by
    running sigma0, so a wrong placement cannot escape silently.
    """
    k = len(sigma)
    if not is_pattern_avoiding(sigma, PATTERN_213):
        raise Not213Avoiding(f"{sigma} contains the pattern 213")
    gap = 2 * k + 2
    a = [gap * j for j in range(1, k + 2)]  # a[k] is a sentinel
    inv = inverse(sigma)
    b = [0] * (k + 1)  # 1-based
    b[k] = a[inv[k - 1] - 1]
    for i in range(k - 1, 0, -1):
        j = inv[i - 1]
        while not (b[i + 1] + 1 < a[j]):  # a[j] is a_{j+1} in 1-based terms
            j += 1
        b[i] = max(a[j - 1], b[i + 1] + 1)
    A = BiSequence(tuple(a[:k]), tuple(b[1:]))
    if not is_strongly_regular(A) or sigma0(A) != sigma:
        raise RuntimeError(
            f"construction for {sigma} produced {A} with sigma0 {sigma0(A)}"
        )
    return A
