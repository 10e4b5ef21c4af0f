"""Independent oracles used only by the test suite.

These deliberately avoid the code paths they are checking: Bruhat order is
decided by brute-force subword search, and Kazhdan-Lusztig polynomials are
solved from the R-polynomial functional equation instead of the descent
recursion with mu-corrections.  The parabolic polynomials have three
oracles beside the packed module rows of klforge.kl: the alternating sum of
ordinary polynomials over W_m, the ordinary polynomial of the cosets
translated by the longest element of W_m, and Deodhar's recursion on
permutation tuples.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from klforge.kl import KLTable, _kl_qtuple, kl_poly
from klforge.poly import LaurentPoly
from klforge.symgroup import (
    NotComparable,
    ParabolicShape,
    Perm,
    apply_s_left,
    apply_s_right,
    bruhat_leq,
    compose,
    enumerate_interval,
    identity,
    is_quotient_minimal,
    length,
    longest_element,
    reduced_word,
    replicate_perm,
)

QTuple = tuple[int, ...]


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


def _qmul(p: QTuple, r: QTuple) -> QTuple:
    if not p or not r:
        return ()
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(r):
                out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


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
    acc: QTuple = ()
    for x in enumerate_interval(sigma, omega):
        p1 = _kl_qtuple(table, sigma, x)
        if not p1:
            continue
        p2 = _kl_qtuple(table, compose(w0, omega), compose(w0, x))
        if not p2:
            continue
        sign = -1 if (length(x) - base) % 2 else 1
        acc = _radd(acc, _rscale(_qmul(p1, p2), sign, 0))
    return acc == ((1,) if sigma == omega else ())


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
    for x in shape.elements():
        p = kl_poly(table, compose(ts, x), tw)
        acc = acc - p if length(x) % 2 else acc + p
    return acc


def parabolic_translated(table: KLTable, sigma: Perm, omega: Perm,
                         m: int) -> LaurentPoly:
    """The -1-variant: P_{t(sigma) w_m, t(omega) w_m} for the longest
    element w_m of W_m."""
    ts, tw, shape = _replication(sigma, omega, m)
    wm = shape.longest()
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
