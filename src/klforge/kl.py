"""Kazhdan-Lusztig polynomials and their parabolic analogues.

All of them come out of one recursion, Deodhar's recursion in a module of
the Hecke algebra of S_n induced from a character of the block parabolic
W_m = S_m x ... x S_m (Deodhar, "On some geometric aspects of Bruhat
orderings II", J. Algebra 111, 1987).  The module has a basis indexed by
the minimal representatives of the cosets w W_m.  For m = 1 the parabolic
is trivial, the module is the Hecke algebra itself and the recursion is
the classical one for the ordinary polynomials P_{x,w}.  For m >= 2 two
parabolic polynomials are attached to the cosets; t_m is the block
replication S_k -> S_{mk}, and the polynomials of (sigma, omega) are
those of (t_m(sigma), t_m(omega)):

* the q-variant, the sign-character module, equals the alternating sum
  over x in W_m of P_{t(sigma) x, t(omega)};
* the -1-variant, the trivial-character module, equals
  P_{t(sigma) w_m, t(omega) w_m} for the longest element w_m of W_m.

These two reductions and the tuple form of the recursion are oracles of
the test suite.

The recursion is run at the granularity of whole rows: the row of w holds
the polynomial of every minimal y <= w, and it is built from the row of sw
for the leftmost left descent s, since the mu-correction terms need the
top coefficients of every entry of that row anyway.  The swapped fields
a, b of s lie in one block of positions, a // m == b // m, exactly when
s y leaves the minimal representatives, which never happens for m = 1;
there the q-variant gets nothing and the -1-variant gets (1 + q) p_y.
Every other pair {y, sy} gets p_y + q p_{sy} at both members.  The kernel
reads which case a pair is, and the mask that swaps its fields, from one
table per m (_pair_table).  Module entries can vanish below w, so vanished
entries are dropped from a row.
Rows are cached in memory with a size cap, and the polynomials actually
asked for are memoized in a KLTable, optionally persisted as an append-only
JSON-lines file: one record per comparable, off-diagonal pair looked up,
appended through one handle and flushed.  A miss formats its line from the
keys and the packed entry it holds (_record), byte for byte what json.dumps
without spaces makes of the record.  A line is one record, read by
json's decode, so JSON whitespace around it (a CRLF ending too) is fine and
anything else after it makes the line bad.  On load, bad records are skipped
and an unterminated tail is truncated, so interrupted sweeps restart cleanly.

Conventions.  P_{w,w} = 1, P_{x,w} = 0 when x is not below w in Bruhat
order, and deg_q P_{x,w} <= (length(w) - length(x) - 1) / 2 for x < w;
the same holds for the module polynomials.  Outside the row recursion a
polynomial is a LaurentPoly, with q rendered as v**-2.

Inside the row recursion both permutations and polynomials are single ints:

* a permutation w of n <= 16 letters is a key holding the 0-based position
  of each value 1..n in a 4-bit field, value 1 in the most significant
  field, above the length of w in the low 7 bits.  s_i w swaps the fields
  of i and i+1 and moves the length by one, i is a left ascent of w when
  the field of i is the smaller, and the length is key & 127.  Keys of the
  same n compare like the tuples of their inverses.
* a polynomial is packed with the coefficient of q**d at bit 32*d, so
  adding is +, subtracting mu q**k r is - (mu * r << 32*k) and every
  coefficient is a 32-bit field.  Every finished row is checked to have
  all coefficients below 2**24.  That bounds the next row: each of its
  coefficients gathers at most two coefficients of the row before, (1 + q)
  p_y included, so they stay below 2**25 before the corrections.  The
  corrections only subtract nonnegative terms from them, since the
  mu-coefficients are the structure constants of the image of the
  Kazhdan-Lusztig basis, nonnegative in every variant.  Python ints are
  exact in between, so no field can carry into the next unnoticed.

A miss replicates the keys of its pair in key space (_replicate_key), and
polynomials leave the row layer decoded, in _entry and in
transition._cosets_below, whose signed sums _add_unpacked adds up field
by field.  The pools behind the encoding belong to the KLTable.  The
kernel pools the row keys as it creates them and the row values where it
makes a new one (a value copied from the row before is pooled already).
Every other pool is a function of its key and fills itself at the first
read (_Memo): the key of each permutation asked about, its replicated key
at each m a miss reads, the pair table of each m, the w0-conjugate of
each key and the Bruhat order of each pair of permutations compared.

Conjugation by w0 maps blocks of positions to blocks of the same size,
hence cosets of W_m to cosets of W_m, and keeps the module polynomials at
every m; t_m(omega) conjugates to t_m(w0 omega w0).  It is the one
symmetry of the table.  A row is cached under a canonical top, the lesser
key of w and its w0-conjugate.  The memo files an answer under the pair
and its w0-conjugate, its class (_pair_class), so a hit is one dict read
on the pair as asked.  That read is _entry, on keys: the public functions
key their permutations and call it, and verify_main_theorem calls it on
the keys it made.  A miss computes, and a record holds, the canonical
member, whose top is the canonical top of its row, so a miss reads the
row as it is cached.  A parabolic pair is compared and listed in S_k: t_m
is an order embedding, keeps the order of keys and commutes with
w0-conjugation.  Inversion keeps P_{x,w} but maps cosets to cosets only
for m = 1, so an ordinary pair and its inverse are computed apart.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from functools import reduce
from operator import or_
from typing import Callable, Mapping

from .poly import LaurentPoly
from .symgroup import NotComparable, Perm, bruhat_leq, is_pattern_avoiding

_ONE = LaurentPoly.one()

# The parabolic variants, by the character of W_m the module is induced from.
_VARIANTS = ("q", "neg1")
# The cap on the entries of all rows a table holds in memory.
_MAX_ROW_ENTRIES = 4_000_000

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
    """The key of w: positions of the values 1..n, then the length.
    ValueError unless w is a permutation of 1..n."""
    n = len(w)
    if n > _MAX_N:
        raise ValueError(f"keys hold at most {_MAX_N} letters, not {n}")
    key = inversions = seen = 0  # seen: the values met so far, as bits
    try:
        for i, v in enumerate(w):
            key |= i << 4 * (n - v)
            inversions += (seen >> v).bit_count()
            seen |= 1 << v
    except (ValueError, TypeError):  # a value above n or below 0, or no int
        seen = 0
    if seen != (2 << n) - 2:
        raise ValueError(f"{w} is not a permutation of 1..{n}")
    return key << 7 | inversions


def _decode(key: int, n: int) -> Perm:
    w = [0] * n
    key >>= 7
    for v in range(n, 0, -1):
        w[key & 15] = v
        key >>= 4
    return tuple(w)


def _conj_key(key: int, n: int) -> int:
    """The key of w0 w w0: the fields reversed and complemented."""
    out = 0
    fields = key >> 7
    for _ in range(n):
        out = out << 4 | (n - 1 - (fields & 15))
        fields >>= 4
    return out << 7 | key & _LEN_MASK


def _replicate_key(key: int, k: int, m: int) -> int:
    """The key of t_m(w) from the key of w in S_k: the value v of w at
    position p becomes the values (v - 1) m + 1..v m at positions
    p m..p m + m - 1, and the length is multiplied by m**2."""
    if k * m > _MAX_N:
        raise ValueError(f"keys hold at most {_MAX_N} letters, not {k * m}")
    out = 0
    for shift in range(_shift(1, k), 6, -4):
        p = (key >> shift & 15) * m
        for field in range(p, p + m):
            out = out << 4 | field
    return out << 7 | m * m * (key & _LEN_MASK)


def _pair_table(m: int) -> list[int]:
    """The pair table of W_m, indexed by a << 4 | b for the 4-bit fields a
    of s and b of s + 1 in a key: 0 when a and b lie in one block of m
    positions, else the mask (a ^ b) * 17 that swaps the two fields, with
    the sign of b - a, positive exactly when s is a left ascent."""
    return [0 if a // m == b // m else (a ^ b) * 17 if a < b else -(a ^ b) * 17
            for a in range(16) for b in range(16)]


def _s_left(key: int, s: int, n: int) -> tuple[int, bool]:
    """The key of s_s w, and whether s is a left ascent of w."""
    lo = _shift(s + 1, n)  # the field of s sits just above
    a = key >> (lo + 4) & 15
    b = key >> lo & 15
    t = key ^ ((a ^ b) * 17 << lo)
    return (t + 1, True) if a < b else (t - 1, False)


def _is_minimal_key(key: int, n: int, m: int) -> bool:
    """Whether the key's permutation is the minimal representative of its
    coset w W_m: the values increase inside each block of m positions."""
    last = [-1] * (n // m)  # per block, the position of the last value seen
    for v in range(1, n + 1):
        p = key >> _shift(v, n) & 15
        if p < last[p // m]:
            return False
        last[p // m] = p
    return True


def _add_unpacked(out: dict[int, int], p: int, c: int) -> dict[int, int]:
    """Add c times the packed polynomial p into out, a map {v-exponent:
    coefficient} with q = v**-2, which LaurentPoly clears of zeros."""
    e = 0
    while p:
        out[e] = out.get(e, 0) + c * (p & _DIGIT)
        p >>= 32
        e -= 2
    return out


def _unpack(p: int) -> LaurentPoly:
    """The packed p of a finished row, whose fields are nonnegative."""
    coeffs = {}
    e = 0
    while p:
        if c := p & _DIGIT:
            coeffs[e] = c
        p >>= 32
        e -= 2
    return LaurentPoly.of_nonzero(coeffs)


def _record(m: int, variant: str | None, k: int, s: int, w: int, p: int) -> bytes:
    """The memo line of the keys s below w in S_k with the packed p of a
    finished row: what json.dumps without spaces makes of the record."""
    terms = []
    d = 0
    while p:
        if c := p & _DIGIT:
            terms.append(f'"{d}":{c}')
        p >>= 32
        d += 1
    head = f'{{"m":{m},"v":"{variant}",' if m > 1 else "{"
    bottom, top = (",".join(map(str, _decode(x, k))) for x in (s, w))
    coeffs = ",".join(terms)
    return f'{head}"n":{k * m},"s":[{bottom}],"w":[{top}],"p":{{{coeffs}}}}}\n'.encode()


class _Memo(dict):
    """A pool that fills itself: a missing key gets fill(key), stored."""

    def __init__(self, fill: Callable):
        super().__init__()
        self._fill = fill

    def __missing__(self, key: object) -> object:
        value = self[key] = self._fill(key)
        return value


class _Images(dict):
    """The w0-conjugates of the keys of S_n, memoised in both directions."""

    def __init__(self, n: int, pool: dict[int, int]):
        super().__init__()
        self._n = n
        self._pool = pool

    def __missing__(self, key: int) -> int:
        image = _conj_key(key, self._n)
        key, image = self._pool.setdefault(key, key), self._pool.setdefault(image, image)
        self[key] = image
        self[image] = key
        return image


def _poly_of_record(data: Mapping[str, int], gap: int, ordinary: bool) -> LaurentPoly:
    """A stored {q-degree: coefficient} map of a pair whose lengths differ
    by gap; ValueError on what the recursion cannot produce: a negative,
    repeated ("1" and "01") or too high degree, a negative or non-int
    coefficient, or an ordinary polynomial with constant term other than 1."""
    items = [(int(d), c) for d, c in data.items()]
    coeffs = dict(items)
    if (any(d < 0 or 2 * d >= gap or type(c) is not int or c < 0 for d, c in items)
            or len(coeffs) < len(items) or ordinary and coeffs.get(0) != 1):
        raise ValueError("bad polynomial")
    return LaurentPoly.from_q_coeffs(coeffs)


class KLTable:
    """Memo table for Kazhdan-Lusztig polynomials.

    Two kinds of finished polynomials are cached in _final, each under the
    key of the pair and of its w0-conjugate, its class (_pair_class), and
    persisted as one JSON line each.  Only comparable, off-diagonal pairs
    are stored:

    * an ordinary P_{s,w}, under (bottom, top).  Record: {"n", "s", "w",
      "p"} with n = len(s).
    * a parabolic polynomial of the cosets of t_m(s) below t_m(w), m >= 2,
      under (m, variant, bottom, top), as keys in S_k.  Record: {"m", "v",
      "n", "s", "w", "p"} with n = m * len(s), so a loader that reads only
      ordinary records finds n != len(s) and skips the line instead of
      misreading it.

    A record holds the canonical member of the class as lists and "p" as
    a map from q-degree to coefficient, in increasing degree.  The loader
    lists the class of whatever member a record holds, so files that
    store other members load and answer the same.  It skips a record of
    more than 16 letters, a pair that is not strictly below in Bruhat order
    and a polynomial the recursion cannot produce (_poly_of_record).  The
    cached values are LaurentPoly, immutable, so a hit hands out the stored
    value itself.

    Rows are held in one in-memory cache whose total entry count is
    capped at _MAX_ROW_ENTRIES; least recently used rows are dropped first
    and recomputed on demand.  Every row is keyed (canonical top key, m,
    neg1), the ordinary rows with m = 1 and neg1 False.  Loading a memo
    file skips bad records and rewrites the file without them.  A miss
    hands _persist its finished line (_record).  Records go through one
    handle, opened at the first and flushed after each, reopened when the
    file was replaced (by another table's loader) and closed with the
    table.

    The table owns every pool.  Rows map keys to packed polynomials, _keys
    interns each key of a row as the kernel creates it and _polys each
    value as the kernel makes it (in the main loop and in the corrections;
    a value copied from the row before is pooled already).  The other pools
    fill themselves at a missing key (_Memo): _perm_keys the key of each
    permutation asked about (_encode), _replicas t_m of each key a miss
    reads, by (key, k, m) (_replicate_key), _images per n the w0-conjugates
    of keys of S_n (_Images), _pairs the pair table of each m (_pair_table),
    _order whether x <= y in Bruhat order, by (x, y), and _avoids_213
    whether verify_main_theorem's sigma0 avoids 213.  No fill refers to the
    table, so a dropped table is freed, and its file closed, at once.  The
    pools outlive evicted rows and go away with the table.

    A permutation is checked when the table first keys it (_encode) and
    found by equality after that, so once (1, 2) is keyed its equal twin
    (1.0, 2) gets the same answers; a type check per hit would slow every
    warm lookup.

    Concurrent use is safe: all writers compute identical values, so the
    last-write-wins inserts are benign, and the persistence writer is
    serialized by a lock.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        # (bottom, top) or (m, variant, bottom, top), as keys -> polynomial
        self._final: dict[tuple, LaurentPoly] = {}
        # row key -> {key: packed polynomial}; LRU, least recent first
        self._rows: OrderedDict[object, dict[int, int]] = OrderedDict()
        self._row_entries = 0
        keys = self._keys = {}
        self._polys: dict[int, int] = {}
        self._perm_keys = _Memo(_encode)
        self._replicas = _Memo(lambda key_k_m: _replicate_key(*key_k_m))
        self._images = _Memo(lambda n: _Images(n, keys))
        self._order = _Memo(lambda pair: bruhat_leq(*pair))
        self._avoids_213 = _Memo(lambda w: is_pattern_avoiding(w, (2, 1, 3)))
        self._pairs = _Memo(_pair_table)
        self._lock = threading.Lock()
        self._path = os.fspath(path) if path is not None else None
        self._fh = self._close = None  # the append handle, and its finalizer
        if self._path is not None:
            self._load()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self._path):
            return
        with open(self._path, "rb") as fh:
            data = fh.read()
        *lines, tail = data.split(b"\n")  # tail: an unterminated record
        # int() refuses float literals, whose tuples would hit _perm_keys' int twins
        decode = json.JSONDecoder(parse_float=int).decode
        kept: list[bytes] = []
        polys: dict[tuple, LaurentPoly] = {}  # by p, its types (true is not 1), gap, kind
        for line in lines:
            try:
                rec = decode(line.decode())
                s, w, m = tuple(rec["s"]), tuple(rec["w"]), rec.get("m", 1)
                kind = (m, rec["v"]) if "m" in rec else ()
                if (type(m) is not int or len(w) != len(s) or rec["n"] != m * len(s)
                        or rec["n"] > _MAX_N or kind and (m < 2 or rec["v"] not in _VARIANTS)):
                    raise ValueError("inconsistent record")
                sk, wk = self._perm_keys[s], self._perm_keys[w]
                if sk == wk or not self._order[s, w]:  # in S_k: t_m embeds the order
                    raise ValueError("not a pair below the diagonal")
                gap = m * m * ((wk & _LEN_MASK) - (sk & _LEN_MASK))  # in S_{mk}
                key = (*rec["p"].items(), *map(type, rec["p"].values()), gap, m == 1)
                p = polys[key] = polys.get(key) or _poly_of_record(rec["p"], gap, m == 1)
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
            for pair in _pair_class(self, sk, wk, len(s)):
                self._final[(*kind, *pair)] = p
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

    def _persist(self, line: bytes) -> None:
        """Append one record line (_record) to the table's file."""
        with self._lock:
            if self._fh is None or os.fstat(self._fh.fileno()).st_nlink == 0:
                if self._close is not None:
                    self._close()
                self._fh = open(self._path, "ab")
                self._close = weakref.finalize(self, self._fh.close)
            self._fh.write(line)
            self._fh.flush()

    # -- row cache -------------------------------------------------------

    def _row_get(self, w: object) -> dict[int, int] | None:
        with self._lock:
            row = self._rows.get(w)
            if row is not None:
                self._rows.move_to_end(w)
            return row

    def _row_put(self, w: object, row: dict[int, int]) -> None:
        with self._lock:
            if w in self._rows:
                return
            self._rows[w] = row
            self._row_entries += len(row)
            while self._row_entries > _MAX_ROW_ENTRIES and len(self._rows) > 1:
                self._row_entries -= len(self._rows.popitem(last=False)[1])


def _pair_class(table: KLTable, s: int, w: int, n: int) -> list[tuple[int, int]]:
    """The symmetry class of the keys s, w of S_n, as (bottom, top) pairs:
    the pair and its w0-conjugate, ordered by (top, bottom).  The first is
    the canonical member, whose top is the canonical top of its row (of
    t_m(w) for m >= 2, see the module docstring)."""
    conj = table._images[n]
    cs, cw = conj[s], conj[w]
    return [(s, w), (cs, cw)] if (w, s) <= (cw, cs) else [(cs, cw), (s, w)]


def _row(table: KLTable, w: int, n: int, m: int = 1,
         neg1: bool = False) -> dict[int, int]:
    """The row {y: p_{y,w}} of the minimal representative w over the
    minimal y <= w with a nonzero polynomial, as keys and packed
    polynomials; read through w0-conjugation when w is not its canonical
    top.  For m = 1 no pair lies in one block, so neg1 is the ordinary row."""
    conj = table._images[n]
    canon = min(w, conj[w])
    neg1 = neg1 and m > 1
    tag = (canon, m, neg1)
    row = table._row_get(tag)
    if row is None:
        if not _is_minimal_key(canon, n, m):
            raise ValueError(f"{_decode(canon, n)} is not a minimal coset representative")
        row = _compute_row(table, canon, n, m, neg1)
        table._row_put(tag, row)
    return row if canon == w else {conj[y]: p for y, p in row.items()}


def _left_descent(w: int, n: int) -> int:
    """The leftmost left descent of w: the smallest s with s + 1 before s."""
    s = 1
    while w >> _shift(s, n) & 15 < w >> _shift(s + 1, n) & 15:
        s += 1
    return s


def _compute_row(table: KLTable, w: int, n: int, m: int, neg1: bool) -> dict[int, int]:
    lw = w & _LEN_MASK
    if lw == 0:
        return {table._keys.setdefault(w, w): 1}
    s = _left_descent(w, n)
    prev = _row(table, _s_left(w, s, n)[0], n, m, neg1)

    # The row of sw holds every minimal y <= sw with a nonzero entry, and
    # the row of w lives on that set and its image under s.  Each pair
    # {z, sz} that stays minimal, z below sz, gets p_z + q p_{sz} at both
    # members; it is visited from z, where s is an ascent (_s_left inlined:
    # the fields of s and s + 1 sit at hi and lo), or from sz when p_z
    # vanished.  A pair that leaves the minimal representatives (both
    # fields in one block) is handled on its own.  The mu-corrections are
    # read at the descents, and in the -1-variant also off (1 + q) p_z,
    # whose top coefficient is that of p_z.
    lo = _shift(s + 1, n)
    lsw = lw - 1
    pairs = table._pairs[m]
    cand: dict[int, int] = {}
    corrections: list[tuple[int, int]] = []
    get, intern, pool = prev.get, table._keys.setdefault, table._polys.setdefault
    for z, pz in prev.items():
        x = pairs[z >> lo & 255]
        if x > 0:  # an ascent
            t = (z ^ (x << lo)) + 1
            t = intern(t, t)
            pt = get(t)
            cand[z] = cand[t] = pz if pt is None else pool(p := pz + (pt << 32), p)
            continue
        if x:  # a descent
            t = (z ^ (-x << lo)) - 1
            if t not in prev:
                t = intern(t, t)
                cand[z] = cand[t] = pool(p := pz << 32, p)
        elif neg1:
            cand[z] = pool(p := pz + (pz << 32), p)  # eigenvalue q: a factor 1 + q
        else:
            continue  # eigenvalue -1: the two contributions cancel
        d = lsw - (z & _LEN_MASK)
        if d & 1:
            # the coefficient of q**((d - 1) / 2), nonzero only at the
            # degree bound
            mu = pz >> (d >> 1 << 5)
            if mu:
                corrections.append((z, mu))

    vanished = False
    for z, mu in corrections:
        shift = (lw - (z & _LEN_MASK)) >> 1 << 5
        for x, px in _row(table, z, n, m, neg1).items():
            p = cand.get(x, 0) - (mu * px << shift)
            if p:
                cand[x] = pool(p, p)
            else:
                del cand[x]
                vanished = True

    # a dict keeps the slots of deleted entries, which a copy sheds
    return _finish_row(dict(cand) if vanished else cand)


def _finish_row(cand: dict[int, int]) -> dict[int, int]:
    """The finished row cand, whose keys and values the kernel pooled;
    raise if a coefficient reached 2**24 (or went negative), see the
    module docstring."""
    if reduce(or_, cand.values(), 0) & _OVERFLOW:
        raise OverflowError("a Kazhdan-Lusztig coefficient reached 2**24")
    return cand


def _lookup(table: KLTable, sigma: Perm, omega: Perm, m: int,
            variant: str | None) -> LaurentPoly:
    """One entry of the module row of t_m(omega), through the memo table;
    for m = 1 the module is the Hecke algebra and the entry is P.  A pair
    that is not comparable in Bruhat order gets 0 when variant is None,
    for the ordinary polynomial, and raises NotComparable otherwise."""
    if len(sigma) != len(omega):
        raise ValueError("permutations must have the same n")
    if m < 1:
        raise ValueError("m must be at least 1")
    keys = table._perm_keys
    return _entry(table, keys[sigma], keys[omega], sigma, omega, m, variant)


def _entry(table: KLTable, s: int, w: int, sigma: Perm, omega: Perm, m: int,
           variant: str | None) -> LaurentPoly:
    """_lookup on the keys s, w of sigma, omega, which the caller has made
    in table._perm_keys and checked to be of one n; a hit reads nothing else."""
    if s == w:
        return _ONE
    hit = table._final.get((s, w) if m == 1 else (m, variant, s, w))
    if hit is not None:
        return hit
    if not table._order[sigma, omega]:  # in S_k: t_m embeds the order
        if variant is None:
            return LaurentPoly()
        raise NotComparable(
            f"t_{m}({sigma}) is not below t_{m}({omega}) in Bruhat order")
    k = len(omega)
    members = _pair_class(table, s, w, k)
    bottom, top = members[0]
    row = _row(table, table._replicas[top, k, m], k * m, m, variant == "neg1")
    packed = row.get(table._replicas[bottom, k, m], 0)
    p = _unpack(packed)
    kind = (m, variant) if m > 1 else ()
    for pair in members:
        table._final[(*kind, *pair)] = p
    if table._path is not None:
        table._persist(_record(m, variant, k, bottom, top, packed))
    return p


def kl_poly(table: KLTable, s: Perm, w: Perm) -> LaurentPoly:
    """P_{s,w}(q), as a LaurentPoly in the q-view (zero when s is not below w)."""
    return _lookup(table, s, w, 1, None)


def parabolic_kl_q(table: KLTable, sigma: Perm, omega: Perm, m: int) -> LaurentPoly:
    """The q-variant parabolic polynomial of the cosets of t_m(sigma) and
    t_m(omega): one entry of the sign-character module row of t_m(omega),
    equal to the alternating sum over W_m of P_{t(sigma) x, t(omega)}.  A
    warm memo table answers without running the recursion."""
    return _lookup(table, sigma, omega, m, "q")


def parabolic_kl_neg1(table: KLTable, sigma: Perm, omega: Perm, m: int) -> LaurentPoly:
    """The -1-variant parabolic polynomial: one entry of the
    trivial-character module row of t_m(omega), equal to the ordinary
    polynomial of both cosets translated by the longest element of W_m."""
    return _lookup(table, sigma, omega, m, "neg1")
