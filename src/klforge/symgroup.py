"""Symmetric group combinatorics on one-line notation.

A permutation of {1..n} is a plain tuple (w(1), ..., w(n)).  The product
compose(u, v) is the function composition u after v.  Multiplying by the
adjacent transposition s_i on the right swaps positions i, i+1 of the word;
on the left it swaps the values i, i+1.

The one parabolic subgroup in use is the block parabolic W_m of S_n, the
product of the symmetric groups on the n/m consecutive blocks of m letters;
it is given by the block size m.  A right coset is represented by its
minimal-length representative; a double coset by its count matrix (transition).
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Iterator

Perm = tuple[int, ...]


class NotComparable(ValueError):
    """The two permutations are not comparable in Bruhat order."""


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def compose(u: Perm, v: Perm) -> Perm:
    """(u o v)(i) = u(v(i))."""
    return tuple(u[j - 1] for j in v)


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, val in enumerate(w):
        out[val - 1] = i + 1
    return tuple(out)


def length(w: Perm) -> int:
    """Inversion count of the one-line word."""
    inv = seen = 0  # seen: the values met so far, as bits
    for v in w:
        inv += (seen >> v).bit_count()  # the larger ones come before v
        seen |= 1 << v
    return inv


def parity(w: Perm) -> int:
    """(-1)**length(w)."""
    return -1 if length(w) % 2 else 1


def bruhat_leq(x: Perm, y: Perm) -> bool:
    """Bruhat order via the tableau criterion.

    x <= y iff for every i the increasing rearrangement of x(1..i) is
    entrywise at most that of y(1..i).
    """
    if len(x) != len(y):
        raise ValueError("permutations must have the same n")
    if x == y:
        return True
    n = len(x)
    xs: list[int] = []
    ys: list[int] = []
    for i in range(n - 1):
        insort(xs, x[i])
        insort(ys, y[i])
        for a, b in zip(xs, ys):
            if a > b:
                return False
    return True


def permutations_of(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def min_coset_rep(w: Perm, m: int) -> Perm:
    """Shortest element of w * W_m: sort the values inside each block of m
    positions.  ValueError unless m divides len(w)."""
    if m < 1 or len(w) % m:
        raise ValueError(f"block size {m} does not divide {len(w)}")
    return tuple(v for start in range(0, len(w), m) for v in sorted(w[start:start + m]))


def replicate_perm(x: Perm, m: int) -> Perm:
    """The block permutation sending block i of size m onto block x(i).

    The result is the minimal coset representative of the block-replication
    of x inside S_{m*len(x)}, with length m**2 * length(x).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    word: list[int] = []
    for target in x:
        base = (target - 1) * m
        word.extend(range(base + 1, base + m + 1))
    return tuple(word)


def is_pattern_avoiding(w: Perm, pattern: Perm) -> bool:
    """True iff no subsequence of w is ordered like the pattern: no choice
    of len(pattern) values of w, kept in order, increases when read in the
    order that sorts the pattern."""
    order = sorted(range(len(pattern)), key=pattern.__getitem__)
    for vals in itertools.combinations(w, len(pattern)):
        prev = 0  # below every value
        for i in order:
            if vals[i] < prev:
                break
            prev = vals[i]
        else:
            return False
    return True
