"""The integer encodings under the row recursion: permutation keys,
packed q-polynomials, and the coset tests of the module recursion."""

import json

import pytest
from hypothesis import given, strategies as st

from helpers import (
    COSET_SYMMETRIES,
    all_perms,
    apply_s_left,
    canonical_pair_oracle,
    conjugate_by_w0,
    is_quotient_minimal,
)
import klforge.kl as kl_module
from klforge.kl import (
    KLTable,
    _conj_key,
    _decode,
    _encode,
    _finish_row,
    _is_minimal_key,
    _left_descent,
    _LEN_MASK,
    _pair_class,
    _pair_table,
    _replicate_key,
    _row,
    _s_left,
    _unpack,
)
from klforge.symgroup import (
    bruhat_leq,
    length,
    longest_element,
    replicate_perm,
)


def check_key(w):
    n = len(w)
    key = _encode(w)
    assert _decode(key, n) == w
    assert key & _LEN_MASK == length(w)
    assert _conj_key(key, n) == _encode(conjugate_by_w0(w))
    for s in range(1, n):
        sw = apply_s_left(w, s)
        assert _s_left(key, s, n) == (_encode(sw), length(sw) > length(w))


@pytest.mark.parametrize("n", range(1, 7))
def test_keys_of_all_small_permutations(n):
    keys = set()
    for w in all_perms(n):
        check_key(w)
        keys.add(_encode(w))
    assert len(keys) == len(list(all_perms(n)))


@given(st.integers(1, 16).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_keys_up_to_16_letters(w):
    check_key(tuple(w))


def test_more_than_16_letters_rejected():
    with pytest.raises(ValueError):
        _encode(tuple(range(1, 18)))


@pytest.mark.parametrize("k", range(1, 6))
def test_replicated_keys_are_keys_of_replicated_permutations(k):
    for m in range(1, 16 // k + 1):
        for w in all_perms(k):
            assert _replicate_key(_encode(w), k, m) == _encode(replicate_perm(w, m)), (w, m)
    with pytest.raises(ValueError, match="at most 16 letters"):
        _replicate_key(_encode(tuple(range(k, 0, -1))), k, 16 // k + 1)


def test_pair_table_against_its_definition():
    for m in range(1, 17):
        table = _pair_table(m)
        assert len(table) == 256
        for a in range(16):
            for b in range(16):
                x = table[a << 4 | b]
                assert (x == 0) == (a // m == b // m), (m, a, b)
                if x:
                    assert (x > 0) == (a < b) and abs(x) == (a ^ b) * 17, (m, a, b)


def test_unpack():
    assert _unpack(0).as_q_polynomial() == {}
    assert _unpack(1).as_q_polynomial() == {0: 1}
    assert _unpack(3 | 5 << 64).as_q_polynomial() == {0: 3, 2: 5}


@pytest.mark.parametrize("degree", [0, 1, 7])
def test_coefficient_of_2_pow_24_raises(degree):
    key = _encode((2, 1))
    row = _finish_row({key: ((1 << 24) - 1) << 32 * degree})
    assert _unpack(row[key]).as_q_polynomial() == {degree: (1 << 24) - 1}
    with pytest.raises(OverflowError):
        _finish_row({key: 1 << 24 << 32 * degree})
    with pytest.raises(OverflowError):
        _finish_row({_encode((1, 2)): 1, key: -1})


def test_finished_rows_share_pooled_keys_and_values():
    # rows built by _row, every top passed as an int object of its own, so
    # canonical rows and rows read through a symmetry are both met
    for n, m, neg1 in [(4, 1, False), (6, 2, False), (8, 2, True), (6, 3, False)]:
        t = KLTable()
        keys: dict[int, int] = {}
        values: dict[int, int] = {}
        for w in all_perms(n // m):
            top = int(str(_encode(replicate_perm(w, m))))
            for y, p in _row(t, top, n, m, neg1).items():
                assert keys.setdefault(y, y) is y and values.setdefault(p, p) is p
        assert len(keys) > n // m and max(values) >> 32  # a value of higher degree


def test_order_memo_is_bruhat_order():
    # one order memo serves every n, and so do the memos on keys: keys of
    # different n differ
    keys = [_encode(x) for n in range(1, 8) for x in all_perms(n)]
    assert len(set(keys)) == len(keys)
    t = KLTable()
    for n in range(1, 6):
        perms = list(all_perms(n))
        for x in perms:
            for y in perms:
                assert t._order[x, y] == bruhat_leq(x, y), (x, y)


def _counting_bruhat(monkeypatch):
    """Patch the comparison the table memoises; returns the list of the
    pairs it is called on."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return bruhat_leq(x, y)

    monkeypatch.setattr(kl_module, "bruhat_leq", counted)
    return calls


def test_order_memo_compares_each_pair_once(tmp_path, monkeypatch):
    from klforge.verify import verify_main_theorem

    calls = _counting_bruhat(monkeypatch)
    path = tmp_path / "memo.jsonl"
    t = KLTable(path)
    cases = [(s0, x, y, m) for s0 in [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
             for x in all_perms(3) for y in all_perms(3) for m in (2, 3)]
    first = [verify_main_theorem(t, *c).to_json() for c in cases]
    assert calls and len(calls) == len(set(calls))
    asked = len(calls)
    again = [verify_main_theorem(t, *c).to_json() for c in cases]
    assert len(calls) == asked
    assert [r["status"] for r in again] == [r["status"] for r in first]
    assert {r["status"] for r in first} == {"pass", "skipped"}
    kl_module.parabolic_kl_q(t, (1, 2, 3), (2, 1, 3), 4)  # a miss on a pair seen
    assert len(calls) == asked
    # the loader compares each record's pair once, in a table of its own
    records = [json.loads(line) for line in path.read_text().splitlines()]
    pairs = {(tuple(r["s"]), tuple(r["w"])) for r in records}
    assert len(pairs) < len(records)  # pairs stored at m = 1, 2 and 3
    loaded = KLTable(path)
    assert sorted((tuple(x), tuple(y)) for x, y in calls[asked:]) == sorted(pairs)
    assert loaded._order is not t._order


def test_tables_share_no_order_memo(monkeypatch):
    calls = _counting_bruhat(monkeypatch)
    a, b = KLTable(), KLTable()
    x, y = (1, 3, 2), (3, 2, 1)
    assert kl_module.kl_poly(a, x, y).is_one() and a._order[x, y]
    assert len(calls) == 1
    pools = ("_final", "_rows", "_keys", "_perm_keys", "_polys", "_images", "_order",
             "_pairs")
    assert all(getattr(a, name) for name in pools)
    assert not any(getattr(b, name) for name in pools)
    assert kl_module.kl_poly(b, x, y).is_one()
    assert len(calls) == 2 and a._order is not b._order


def _block_sizes():
    for n in range(1, 7):
        for m in range(1, n + 1):
            if n % m == 0:
                yield n, m


def test_key_quotient_test_matches_is_quotient_minimal():
    for n, m in _block_sizes():
        for w in all_perms(n):
            assert _is_minimal_key(_encode(w), n, m) == is_quotient_minimal(w, m), (w, m)


def test_w0_conjugation_keeps_minimal_representatives():
    for n, m in _block_sizes():
        for w in all_perms(n):
            if is_quotient_minimal(w, m):
                assert _is_minimal_key(_conj_key(_encode(w), n), n, m), (w, m)
    # t_m(omega) conjugates to t_m(w0 omega w0)
    for k in range(1, 4):
        for m in range(1, 4):
            for omega in all_perms(k):
                assert conjugate_by_w0(replicate_perm(omega, m)) == replicate_perm(
                    conjugate_by_w0(omega), m)


# Rows of the module recursion in S_4 with W_2 = S_2 x S_2, from one made-up
# row of sw whose entries do not trigger mu-corrections:
# * q: the top 3412 has s = 2 and sw = 2413; the pair {e, s_2} meets at e
#   as c q + q 2**23;
# * -1: the top 2413 has s = 1 and sw = 1423; s_1 e leaves the quotient,
#   so e gets (1 + q)(2**23 + c q).
# Either way the coefficient of q at e is c + 2**23.
@pytest.mark.parametrize("neg1, top, prev", [
    (False, (3, 4, 1, 2), lambda c: {(1, 2, 3, 4): c << 32, (1, 3, 2, 4): 1 << 23}),
    (True, (2, 4, 1, 3), lambda c: {(1, 2, 3, 4): (1 << 23) + (c << 32)}),
], ids=["q", "neg1"])
def test_module_row_coefficient_of_2_pow_24_raises(neg1, top, prev):
    n, m = 4, 2
    w = _encode(top)
    sw = _s_left(w, _left_descent(w, n), n)[0]
    assert sw <= _conj_key(sw, n)  # sw is the key its row is cached under

    def table_with(c):
        t = KLTable()
        t._row_put((sw, m, neg1), {_encode(z): p for z, p in prev(c).items()})
        return t

    row = _row(table_with((1 << 23) - 1), w, n, m, neg1)
    assert _unpack(row[_encode((1, 2, 3, 4))]).as_q_polynomial()[1] == (1 << 24) - 1
    with pytest.raises(OverflowError):
        _row(table_with(1 << 23), w, n, m, neg1)


# Rows computed for one top in a fresh table.  Rows share work through
# w0-conjugation of their tops, at every m.
@pytest.mark.parametrize("k, m, neg1, rows", [
    (6, 1, False, 73),
    (7, 1, False, 204),
    (8, 1, False, 551),
    (4, 2, False, 158),
    (4, 2, True, 125),
    (3, 3, False, 92),
    (3, 3, True, 119),
])
def test_rows_computed_for_the_top_of_w0(monkeypatch, k, m, neg1, rows):
    computed = []
    compute = kl_module._compute_row

    def counting(table, w, n, m, neg1):
        computed.append((w, m, neg1))
        return compute(table, w, n, m, neg1)

    monkeypatch.setattr(kl_module, "_compute_row", counting)
    n = k * m
    _row(KLTable(), _encode(replicate_perm(longest_element(k), m)), n, m, neg1)
    assert len(computed) == len(set(computed)) == rows


@pytest.mark.parametrize("neg1", [False, True])
def test_row_of_a_non_minimal_top_raises(neg1):
    with pytest.raises(ValueError, match="not a minimal coset representative"):
        _row(KLTable(), _encode((2, 1, 3, 4)), 4, 2, neg1)


def _memo_key(table, s, w):
    return _pair_class(table, _encode(s), _encode(w), len(s))[0]


def check_pair_key(table, s, w, m):
    """The memo key of (s, w) names the oracle's pair, and its top is the
    canonical top of the row of t_m(w): the lesser replicated key under
    w0-conjugation, where the replicated keys exist."""
    k = len(s)
    bottom, top = _memo_key(table, s, w)
    if m * k <= 16:
        t = _encode(replicate_perm(_decode(top, k), m))
        assert t <= _conj_key(t, m * k)
    return (bottom, top), canonical_pair_oracle(s, w)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pairs_share_a_memo_key_exactly_when_the_oracle_says(m):
    t = KLTable()
    for k in range(1, 6):
        keys = {}
        for w in all_perms(k):
            for s in all_perms(k):
                if bruhat_leq(s, w):
                    key, oracle = check_pair_key(t, s, w, m)
                    assert keys.setdefault(key, oracle) == oracle, (s, w, m)
        assert len(set(keys.values())) == len(keys)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)),
    st.sampled_from([1, 2, 3]), st.integers(0, 1), st.integers(0, 1))))
def test_pair_keys_against_the_oracle_up_to_8_letters(case):
    s, w, m, f, g = case
    s, w = tuple(s), tuple(w)
    f, g = COSET_SYMMETRIES[f], COSET_SYMMETRIES[g]
    t = KLTable()
    key, oracle = check_pair_key(t, s, w, m)
    assert _memo_key(t, f(s), f(w)) == key  # one symmetry on both members
    other, other_oracle = check_pair_key(t, f(s), g(w), m)
    assert (other == key) == (other_oracle == oracle)
