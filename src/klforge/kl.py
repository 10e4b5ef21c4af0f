"""Kazhdan-Lusztig polynomials and their parabolic analogues.

Ordinary polynomials P_{x,w} are computed by the classical recursion on the
Kazhdan-Lusztig basis of the Hecke algebra, one left descent of w at a time.
The recursion is run at the granularity of whole rows: the vector of all
P_{y,w} for y <= w is built from the vector of sw, since the mu-correction
terms need the top coefficients of every entry of that vector anyway.
Rows are cached in memory with a size cap, and the polynomials actually
asked for are memoized in a KLTable, optionally persisted as an append-only
JSON-lines file: one record per comparable, off-diagonal pair looked up,
whether by kl_poly or as a summand of a parabolic sum.  On load, bad records
are skipped and an unterminated tail is truncated, so interrupted sweeps
restart cleanly.

Conventions.  P_{w,w} = 1, P_{x,w} = 0 when x is not below w in Bruhat
order, and deg_q P_{x,w} <= (length(w) - length(x) - 1) / 2 for x < w.
Outside the row recursion a polynomial in q is a dense tuple of
coefficients indexed by q-degree, with no trailing zeros; the public
functions wrap results in LaurentPoly (q rendered as v**-2).

Inside the row recursion both permutations and polynomials are single ints:

* a permutation w of n <= 16 letters is a key holding the 0-based position
  of each value 1..n in a 4-bit field, value 1 in the most significant
  field, above the length of w in the low 7 bits.  s_i w swaps the fields
  of i and i+1 and moves the length by one, i is a left ascent of w when
  the field of i is the smaller, and the length is key & 127.  Keys of the
  same n compare like the tuples of their inverses, so the least tuple
  image of w under _SYMMETRIES is the inverse of its least key image.
* a polynomial is packed with the coefficient of q**d at bit 32*d, so
  adding is +, subtracting mu q**k r is - (mu * r << 32*k) and every
  coefficient is a 32-bit field.  Every finished row is checked to have
  all coefficients below 2**24.  That bounds the next row: each of its
  entries gathers at most two contributions from the row before, so its
  coefficients stay below 2**25 before the corrections, and the
  corrections only subtract nonnegative terms from them.  Python ints
  are exact in between, so no field can carry into the next unnoticed.

Keys and polynomials leave the row layer decoded, in _kl_qtuple and in
transition._cosets_below.  The pools behind the encoding belong to the
KLTable: the interned keys and packed values of finished rows, and the
inverse and w0-conjugate images of each key, memoised as they are needed.

Two parabolic polynomials are attached to cosets of W_m = S_m x ... x S_m
inside S_{mk}, both reduced to ordinary polynomials:

* the q-variant is the alternating sum over x in W_m of P_{t(sigma) x, t(omega)};
* the -1-variant is P_{t(sigma) w_m, t(omega) w_m} for the longest w_m of W_m,

where t is the block replication embedding S_k -> S_{mk}.  An independent
recursion in the induced module of the Hecke algebra (the classical
parabolic recursion, run over minimal coset representatives only) is
provided for cross-validation; it never shares intermediate state with the
signed-sum route.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from functools import reduce
from operator import or_
from typing import Callable, Mapping

from .poly import LaurentPoly
from .symgroup import (
    NotComparable,
    ParabolicShape,
    Perm,
    apply_s_left,
    bruhat_leq,
    compose,
    enumerate_interval,
    inverse,
    is_quotient_minimal,
    length,
    longest_element,
    replicate_perm,
)

# A polynomial in q as a dense coefficient tuple, least degree first,
# normalized with no trailing zeros; () is the zero polynomial.
QTuple = tuple[int, ...]

_ONE: QTuple = (1,)

# -- permutation keys and packed polynomials ---------------------------------

_LEN_MASK = 127
_MAX_N = 16
_DIGIT = (1 << 32) - 1
# the top 8 bits of each of the 64 coefficient fields; degrees stay below
# (length(w0) - 1) / 2 < 60 for n <= 16
_OVERFLOW = int("ff000000" * 64, 16)


def _shift(v: int, n: int) -> int:
    """The offset of the 4-bit position field of the value v in a key."""
    return 7 + 4 * (n - v)


def _encode(w: Perm) -> int:
    """The key of w: positions of the values 1..n, then the length."""
    n = len(w)
    if n > _MAX_N:
        raise ValueError(f"keys hold at most {_MAX_N} letters, not {n}")
    key = 0
    for i, v in enumerate(w):
        key |= i << 4 * (n - v)
    return key << 7 | length(w)


def _decode(key: int, n: int) -> Perm:
    w = [0] * n
    key >>= 7
    for v in range(n, 0, -1):
        w[key & 15] = v
        key >>= 4
    return tuple(w)


def _inv_key(key: int, n: int) -> int:
    """The key of w^-1: the positions of w^-1 are the values of w."""
    out = 0
    for v in _decode(key, n):
        out = out << 4 | (v - 1)
    return out << 7 | key & _LEN_MASK


def _conj_key(key: int, n: int) -> int:
    """The key of w0 w w0: the fields reversed and complemented."""
    out = 0
    fields = key >> 7
    for _ in range(n):
        out = out << 4 | (n - 1 - (fields & 15))
        fields >>= 4
    return out << 7 | key & _LEN_MASK


def _s_left(key: int, s: int, n: int) -> tuple[int, bool]:
    """The key of s_s w, and whether s is a left ascent of w."""
    lo = _shift(s + 1, n)  # the field of s sits just above
    a = key >> (lo + 4) & 15
    b = key >> lo & 15
    t = key ^ ((a ^ b) * 17 << lo)
    return (t + 1, True) if a < b else (t - 1, False)


def _unpack(p: int) -> QTuple:
    out = []
    while p:
        out.append(p & _DIGIT)
        p >>= 32
    return tuple(out)


class _Images(dict):
    """One involution of the keys of S_n, memoised in both directions."""

    def __init__(self, image: Callable[[int, int], int], n: int,
                 pool: dict[int, int]):
        super().__init__()
        self._image = image
        self._n = n
        self._pool = pool

    def __missing__(self, key: int) -> int:
        image = self._image(key, self._n)
        image = self._pool.setdefault(image, image)
        self[key] = image
        self[image] = key
        return image


# -- the tuple side ----------------------------------------------------------


def _padd(p: QTuple, r: QTuple) -> QTuple:
    if not p:
        return r
    if not r:
        return p
    if len(p) < len(r):
        p, r = r, p
    out = list(p)
    for i, c in enumerate(r):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _psub_scaled(p: QTuple, r: QTuple, mu: int, shift: int) -> QTuple:
    """p - mu * q**shift * r, normalized."""
    out = list(p) + [0] * max(0, shift + len(r) - len(p))
    for i, c in enumerate(r):
        out[shift + i] -= mu * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _qshift(p: QTuple, k: int) -> QTuple:
    return ((0,) * k + p) if p else p


def _qtuple_to_poly(p: QTuple) -> LaurentPoly:
    return LaurentPoly.from_q_coeffs({d: c for d, c in enumerate(p) if c})


def _poly_to_qtuple(data: Mapping[str, int]) -> QTuple:
    if not data:
        return ()
    deg = max(int(d) for d in data)
    out = [0] * (deg + 1)
    for d, c in data.items():
        out[int(d)] = int(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _conjugate_by_w0(w: Perm) -> Perm:
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def _identity(w: Perm) -> Perm:
    return w


def _conjugate_inverse_by_w0(w: Perm) -> Perm:
    return _conjugate_by_w0(inverse(w))


# The classical symmetries P_{x,w} = P_{f(x),f(w)}: x, x^-1, w0 x w0 and
# w0 x^-1 w0.  Each is an involution, so the map that carries a key to its
# canonical form also carries it back.
_SYMMETRIES: tuple[Callable[[Perm], Perm], ...] = (
    _identity, inverse, _conjugate_by_w0, _conjugate_inverse_by_w0)


def _canonical_top(w: Perm) -> tuple[Perm, list[Callable[[Perm], Perm]]]:
    """The least image of w under _SYMMETRIES, and the symmetries giving it."""
    images = [(f(w), f) for f in _SYMMETRIES]
    top = min(t for t, _ in images)
    return top, [f for t, f in images if t == top]


class KLTable:
    """Memo table for Kazhdan-Lusztig polynomials.

    Finished polynomials are cached under a key normalized by _SYMMETRIES,
    which quarters the cache; the key's top is the canonical top of the row
    cache, so an answer is read straight out of a cached row.  Only
    comparable, off-diagonal pairs are stored: kl_poly and the summands of
    parabolic_kl_q share one lookup.  Rows of the recursion are held in an
    in-memory cache whose total entry count is capped; least recently used
    rows are dropped first and recomputed on demand.  Loading a memo file
    skips bad records and rewrites the file without them.

    The table owns every pool of the row recursion: rows map permutation
    keys to packed polynomials, each key and each packed value of a
    finished row is interned in _keys and _polys, and _images holds, per n,
    the inverse and w0-conjugate of each key met so far.  The pools outlive
    evicted rows and go away with the table.

    Concurrent use is safe: all writers compute identical values, so the
    last-write-wins inserts are benign, and the persistence writer is
    serialized by a lock.
    """

    def __init__(self, path: str | os.PathLike | None = None,
                 max_row_entries: int = 4_000_000):
        self._final: dict[tuple[Perm, Perm], QTuple] = {}
        # canonical top key -> {key: packed polynomial}; LRU, least recent first
        self._rows: OrderedDict[int, dict[int, int]] = OrderedDict()
        self._row_entries = 0
        self._max_row_entries = max_row_entries
        self._keys: dict[int, int] = {}
        self._polys: dict[int, int] = {}
        self._images: dict[int, tuple[_Images, _Images]] = {}
        self._lock = threading.Lock()
        self._path = os.fspath(path) if path is not None else None
        if self._path is not None:
            self._load()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self._path):
            return
        with open(self._path, "rb") as fh:
            data = fh.read()
        *lines, tail = data.split(b"\n")  # tail: an unterminated record
        kept: list[bytes] = []
        for line in lines:
            try:
                rec = json.loads(line)
                s = tuple(int(i) for i in rec["s"])
                w = tuple(int(i) for i in rec["w"])
                if rec["n"] != len(s) or len(s) != len(w):
                    raise ValueError("inconsistent record")
                p = _poly_to_qtuple(rec["p"])
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
            self._final[self._canonical_pair(s, w)] = p
            kept.append(line)
        if len(kept) < len(lines):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self._path) or ".")
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(line + b"\n" for line in kept)
            shutil.copymode(self._path, tmp)
            os.replace(tmp, self._path)
        elif tail:
            with open(self._path, "r+b") as fh:
                fh.truncate(len(data) - len(tail))

    def _persist(self, s: Perm, w: Perm, p: QTuple) -> None:
        if self._path is None:
            return
        rec = {
            "n": len(s),
            "s": list(s),
            "w": list(w),
            "p": {str(d): c for d, c in enumerate(p) if c},
        }
        line = json.dumps(rec, separators=(",", ":")) + "\n"
        with self._lock:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(line)

    # -- key normalization ----------------------------------------------

    @staticmethod
    def _canonical_pair(s: Perm, w: Perm) -> tuple[Perm, Perm]:
        """The least (top, bottom) image of the pair under _SYMMETRIES."""
        top, symmetries = _canonical_top(w)
        return min(f(s) for f in symmetries), top

    def _symmetries(self, n: int) -> tuple[_Images, _Images]:
        """The inverse and the w0-conjugate of the keys of S_n."""
        images = self._images.get(n)
        if images is None:
            images = self._images.setdefault(n, (
                _Images(_inv_key, n, self._keys), _Images(_conj_key, n, self._keys)))
        return images

    # -- row cache -------------------------------------------------------

    def _row_get(self, w: int) -> dict[int, int] | None:
        with self._lock:
            row = self._rows.get(w)
            if row is not None:
                self._rows.move_to_end(w)
            return row

    def _row_put(self, w: int, row: dict[int, int]) -> None:
        with self._lock:
            if w in self._rows:
                return
            self._rows[w] = row
            self._row_entries += len(row)
            while self._row_entries > self._max_row_entries and len(self._rows) > 1:
                self._row_entries -= len(self._rows.popitem(last=False)[1])


def _kl_row(table: KLTable, w: int, n: int) -> dict[int, int]:
    """The row {y: P_{y,w}} over y <= w, as keys and packed polynomials,
    possibly read through a symmetry from the row of the canonical top."""
    inv, conj = table._symmetries(n)
    wi = inv[w]
    wc = conj[w]
    canon = inv[min(w, wi, wc, conj[wi])]
    row = table._row_get(canon)
    if row is None:
        row = _compute_row(table, canon, n)
        table._row_put(canon, row)
    if canon == w:
        return row
    if canon == wi:
        return {inv[y]: p for y, p in row.items()}
    if canon == wc:
        return {conj[y]: p for y, p in row.items()}
    return {conj[inv[y]]: p for y, p in row.items()}


def _compute_row(table: KLTable, w: int, n: int) -> dict[int, int]:
    lw = w & _LEN_MASK
    if lw == 0:
        return {w: 1}

    # leftmost left descent: smallest s with s + 1 occurring before s
    s = 1
    while w >> _shift(s, n) & 15 < w >> _shift(s + 1, n) & 15:
        s += 1
    sw, _ = _s_left(w, s, n)
    prev = _kl_row(table, sw, n)

    # The row of sw holds the whole interval [e, sw], and [e, w] is its
    # union with s[e, sw].  Each pair {z, sz} there, z below sz, gets
    # P_{z,sw} + q P_{sz,sw} at both members; it is visited from z, where
    # s is an ascent (_s_left inlined: the fields of s and s + 1 sit at hi
    # and lo).  At a descent z only the mu-correction is read off.
    lo = _shift(s + 1, n)
    hi = lo + 4
    lsw = lw - 1
    cand: dict[int, int] = {}
    corrections: list[tuple[int, int]] = []
    get = prev.get
    for z, pz in prev.items():
        a = z >> hi & 15
        b = z >> lo & 15
        if a < b:
            t = (z ^ ((a ^ b) * 17 << lo)) + 1
            pt = get(t)
            cand[z] = cand[t] = pz if pt is None else pz + (pt << 32)
        else:
            d = lsw - (z & _LEN_MASK)
            if d & 1:
                # the coefficient of q**((d - 1) / 2), nonzero only at the
                # degree bound
                mu = pz >> (d >> 1 << 5)
                if mu:
                    corrections.append((z, mu))

    # every x below z lies in [e, w], and P_{x,w} never vanishes there
    for z, mu in corrections:
        shift = (lw - (z & _LEN_MASK)) >> 1 << 5
        for x, px in _kl_row(table, z, n).items():
            cand[x] -= mu * px << shift

    return _finish_row(table, cand)


def _finish_row(table: KLTable, cand: dict[int, int]) -> dict[int, int]:
    """Intern a finished row in the table's pools; raise if a coefficient
    reached 2**24 (or went negative), see the module docstring."""
    values = cand.values()
    if reduce(or_, values, 0) & _OVERFLOW:
        raise OverflowError("a Kazhdan-Lusztig coefficient reached 2**24")
    keys, polys = table._keys.setdefault, table._polys.setdefault
    return dict(zip(map(keys, cand, cand), map(polys, values, values)))


def _kl_qtuple(table: KLTable, s: Perm, w: Perm) -> QTuple:
    if len(s) != len(w):
        raise ValueError("permutations must have the same n")
    if s == w:
        return _ONE
    if not bruhat_leq(s, w):
        return ()
    key = table._canonical_pair(s, w)
    hit = table._final.get(key)
    if hit is not None:
        return hit
    p = _unpack(_kl_row(table, _encode(key[1]), len(w)).get(_encode(key[0]), 0))
    table._final[key] = p
    table._persist(key[0], key[1], p)
    return p


def kl_poly(table: KLTable, s: Perm, w: Perm) -> LaurentPoly:
    """P_{s,w}(q), as a LaurentPoly in the q-view (zero when s is not below w)."""
    return _qtuple_to_poly(_kl_qtuple(table, s, w))


def _replication_data(sigma: Perm, omega: Perm, m: int):
    if len(sigma) != len(omega):
        raise ValueError("permutations must have the same n")
    if m < 1:
        raise ValueError("m must be at least 1")
    k = len(sigma)
    ts = replicate_perm(sigma, m)
    tw = replicate_perm(omega, m)
    if not bruhat_leq(ts, tw):
        raise NotComparable(
            f"t_{m}({sigma}) is not below t_{m}({omega}) in Bruhat order"
        )
    return k, ts, tw, ParabolicShape((m,) * k)


def parabolic_kl_q(table: KLTable, sigma: Perm, omega: Perm, m: int) -> LaurentPoly:
    """The q-variant parabolic polynomial of the cosets of sigma, omega.

    Computed as the alternating sum over the block parabolic W_m of
    P_{t(sigma) x, t(omega)}.  Every summand goes through the memo table,
    so a warm table answers without running the recursion at all.
    """
    _, ts, tw, shape = _replication_data(sigma, omega, m)
    acc: QTuple = ()
    for x in shape.elements():
        p = _kl_qtuple(table, compose(ts, x), tw)
        if not p:
            continue
        if length(x) % 2:
            acc = _psub_scaled(acc, p, 1, 0)
        else:
            acc = _padd(acc, p)
    return _qtuple_to_poly(acc)


def parabolic_kl_neg1(table: KLTable, sigma: Perm, omega: Perm, m: int) -> LaurentPoly:
    """The -1-variant parabolic polynomial: one ordinary polynomial after
    translating both cosets by the longest element of W_m."""
    _, ts, tw, shape = _replication_data(sigma, omega, m)
    wm = shape.longest()
    return kl_poly(table, compose(ts, wm), compose(tw, wm))


def kl_inversion_check(table: KLTable, sigma: Perm, omega: Perm) -> bool:
    """The alternating-sum inversion identity over the interval [sigma, omega].

    sum over sigma <= x <= omega of
        (-1)**(l(x)-l(sigma)) P_{sigma,x} P_{w0 omega, w0 x}
    equals 1 when sigma == omega and 0 otherwise.
    """
    if not bruhat_leq(sigma, omega):
        raise NotComparable(f"{sigma} is not below {omega}")
    n = len(sigma)
    w0 = longest_element(n)
    base = length(sigma)
    acc: QTuple = ()
    for x in enumerate_interval(sigma, omega):
        p1 = _kl_qtuple(table, sigma, x)
        if not p1:
            continue
        p2 = _kl_qtuple(table, compose(w0, omega), compose(w0, x))
        if not p2:
            continue
        prod = _qmul(p1, p2)
        if (length(x) - base) % 2:
            acc = _psub_scaled(acc, prod, 1, 0)
        else:
            acc = _padd(acc, prod)
    expected: QTuple = _ONE if sigma == omega else ()
    return acc == expected


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


# -- the parabolic module recursion (independent oracle) -----------------

# The eigenvalue tag "q" is the sign-character module (matching the
# alternating-sum polynomial) and "neg1" the trivial-character module
# (matching the translated ordinary polynomial).  The binding of tag to
# module eigenvalue was fixed by exhaustive agreement with the reductions
# above on S_4 and S_6.  cache holds the rows of one (n, m, variant).
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
        row = {w: _ONE}
        cache[w] = row
        return row

    pos = [0] * (n + 1)
    for idx, val in enumerate(w):
        pos[val] = idx
    s = next(i for i in range(1, n) if pos[i] > pos[i + 1])
    prev = _deodhar_row(n, m, variant, apply_s_left(w, s), cache)

    cand: dict[Perm, QTuple] = {}

    def acc(key: Perm, p: QTuple) -> None:
        cur = cand.get(key)
        cand[key] = p if cur is None else _padd(cur, p)

    for z, pz in prev.items():
        t = apply_s_left(z, s)
        if not is_quotient_minimal(t, shape):
            if variant == "neg1":  # eigenvalue q: picks up a factor q + 1
                acc(z, _padd(pz, _qshift(pz, 1)))
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
        shift = d >> 1
        for x, px in _deodhar_row(n, m, variant, z, cache).items():
            upd = _psub_scaled(cand.get(x, ()), px, mu, shift)
            if upd:
                cand[x] = upd
            else:
                cand.pop(x, None)

    cache[w] = cand
    return cand


def parabolic_kl_deodhar(sigma: Perm, omega: Perm, m: int,
                         variant: str = "q") -> LaurentPoly:
    """Parabolic polynomial by the recursion in the induced Hecke module.

    Fully independent of the signed-sum and translation reductions; used to
    cross-validate them.  variant selects the q- or -1-flavour.
    """
    if variant not in ("q", "neg1"):
        raise ValueError("variant must be 'q' or 'neg1'")
    _, ts, tw, _ = _replication_data(sigma, omega, m)
    row = _deodhar_row(len(ts), m, variant, tw, {})
    return _qtuple_to_poly(row.get(ts, ()))
